"""Every name a module of the package imports is used in that module,
every public name of the package has a caller outside the tests, so does
every function and method the package defines, the CLI imports without
``dataclasses``, and the six record types keep their contract as
``NamedTuple``s.

No linter ships with the toolchain, so this reads each module with ``ast``.
A name counts as used when it occurs anywhere in the module's code,
annotations included (quoted ones are parsed too), but not in its
docstrings.  ``__init__.py`` is left out: it imports names to re-export
them.
"""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import brauerblocks
from brauerblocks.blocks import block_key, classify_weight_class
from brauerblocks.central import central_character
from brauerblocks.partitions import Partition
from brauerblocks.sequences import make_sequence
from brauerblocks.verify import CheckResult
from brauerblocks.weights import reduce_mod_qtheta, weight_alpha_part
from test_benchmark_names import _workload_names, _wrapped_table

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "brauerblocks"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= _used(ast.parse(annotation.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but unused: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from fractions import Fraction\nimport os\nx: 'Fraction' = 1\n")
    assert set(_imported(tree)) - _used(tree) == {"os"}


def test_every_public_name_has_a_caller():
    # a name the package exports is used by one of its modules, or by the
    # benchmark's workloads through the package object ``bb``; a name only
    # the tests use stays in its module, off the package's surface
    used = set().union(*(_used(ast.parse(path.read_text())) for path in MODULES))
    workloads = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    used |= {
        node.attr
        for node in ast.walk(workloads)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "bb"
    }
    public = set(brauerblocks.__all__) - {"__version__"}
    assert sorted(public - used) == []


def _definitions(tree: ast.Module):
    """Yield (qualified name, short name) for each module-level function and
    each method of a module-level class, dunder methods left out."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


def _referenced(tree: ast.AST) -> set[str]:
    """The names used in code, and the attributes read off anything."""
    return _used(tree) | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _uncalled(trees, reached: set[str]) -> set[str]:
    """Functions and methods whose short name no module references and the
    benchmark does not reach."""
    referenced = set().union(*map(_referenced, trees)) | reached
    return {name for tree in trees for name, short in _definitions(tree) if short not in referenced}


# make_sequence builds the argument of orbit_key and same_orbit, which the
# benchmark's tracer wraps; it leaves the package with them
NO_CALLER_NEEDED = {"make_sequence"}


def test_every_function_has_a_caller():
    # a function or method that no module of the package calls, and that
    # the benchmark's workloads (as ``bb.<name>``) and tracer (its WRAPPED
    # table) do not reach, is code that nothing but the tests needs
    trees = [ast.parse(path.read_text()) for path in MODULES]
    wrapped = {attr for _, attr, _, _ in _wrapped_table()}
    uncalled = _uncalled(trees, _workload_names())
    assert sorted(uncalled - wrapped - NO_CALLER_NEEDED) == []
    assert NO_CALLER_NEEDED <= uncalled
    # what only the benchmark's tracer holds in the package (ROADMAP direction 2)
    assert sorted(uncalled) == [
        "Partition.contents",
        "make_sequence",
        "orbit_key",
        "same_orbit",
        "shape_from_entries",
    ]


def test_the_check_sees_an_uncalled_function():
    tree = ast.parse(
        "def used(): pass\n"
        "def unused(): used()\n"
        "class C:\n"
        "    def __init__(self): pass\n"
        "    def read(self): return self.write\n"
        "    def write(self): pass\n"
    )
    assert _uncalled([tree], set()) == {"unused", "C.read"}
    assert _uncalled([tree], {"unused", "read"}) == set()


def test_the_cli_imports_without_dataclasses():
    # pytest has loaded both modules already, so ask a fresh interpreter
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import sys, brauerblocks.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


RECORDS = [
    (
        classify_weight_class(Partition(()), 2),
        "BlockClassification(split=True, partner=Partition([1, 1]))",
        "partner",
        None,
    ),
    (
        central_character(Partition((2, 2)), 1),
        "FactoredRational(constant=Fraction(-1, 1), factors=((Fraction(-1, 2), 1), (Fraction(1, 2), 1)))",
        "constant",
        Fraction(1),
    ),
    (
        make_sequence(Partition((2, 1)), "1/2"),
        "ChargedSequence(charge=Fraction(1, 2), shape=Partition([2, 1]))",
        "charge",
        Fraction(-1, 2),
    ),
    (
        block_key(Partition((2,)), 0),
        "OrbitKey(twice_charge=-2, deviations=(), neg_parity='*')",
        "neg_parity",
        0,
    ),
    (
        CheckResult("witness-pair", "fixed", True, None, 0.5),
        "CheckResult(name='witness-pair', scope='fixed', passed=True, counterexample=None, elapsed=0.5)",
        "passed",
        False,
    ),
    (
        reduce_mod_qtheta(weight_alpha_part(Partition((2, 1)), 2), 2),
        "SymWeight(pos=((3, 1),), zero_parity=None)",
        "zero_parity",
        1,
    ),
]


@pytest.mark.parametrize("record, text, field, value", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS])
def test_record_contract(record, text, field, value):
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    twin = type(record)(*record)
    assert twin == record and hash(twin) == hash(record)
    changed = record._replace(**{field: value})
    assert getattr(changed, field) == value
    assert [name for name in record._fields if getattr(changed, name) != getattr(record, name)] == [field]
    assert repr(record) == text
