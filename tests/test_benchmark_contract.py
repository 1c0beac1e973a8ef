"""The names the benchmark calls and patches still exist in the library.

perfbench/tracer.py rebinds every function in SPANNED, looking each one up
with vars(owner)[leaf], and counts constructor calls of every class in
COUNTED.  perfbench/workloads.py and perfbench/run.py call library functions
through the modules checks, rsk, oracle and cli, and run each suite that
workloads.CATALOG names.  A deleted or renamed name would only fail the
benchmark run; this test fails first.  The perfbench modules are read as
text, never imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
# library modules the workloads and the runner call into by module name
CALLED_MODULES = ("checks", "rsk", "oracle", "cli")


def _tracer_constant(name: str) -> tuple[tuple[str, str], ...]:
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER}")


SPANNED = _tracer_constant("SPANNED")
COUNTED = _tracer_constant("COUNTED")


def test_lists_are_nonempty():
    assert SPANNED and COUNTED


@pytest.mark.parametrize("module, attr", SPANNED, ids=[f"{m}.{a}" for m, a in SPANNED])
def test_spanned_name_resolves(module, attr):
    owner = importlib.import_module(f"segrsk.{module}")
    *outer, leaf = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # the tracer reads the owner's own namespace, so an inherited name fails too
    assert callable(vars(owner)[leaf])


@pytest.mark.parametrize("module, name", COUNTED, ids=[f"{m}.{n}" for m, n in COUNTED])
def test_counted_name_is_a_class(module, name):
    assert isinstance(getattr(importlib.import_module(f"segrsk.{module}"), name), type)


def _called_names() -> list[tuple[str, str]]:
    """(module, attribute) of every module.attribute(...) call, and of every CATALOG suite."""
    names = set()
    for source in ("workloads.py", "run.py"):
        tree = ast.parse((PERFBENCH / source).read_text())
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in CALLED_MODULES
            ):
                names.add((node.func.value.id, node.func.attr))
            if (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id == "CATALOG"
            ):
                names.update(("checks", entry.elts[0].value) for entry in node.value.elts)
    return sorted(names)


CALLED = _called_names()


def test_called_names_include_the_catalog_and_depth_function():
    assert {("checks", "suite_strings"), ("rsk", "depth_function"), ("cli", "main")} <= set(CALLED)


@pytest.mark.parametrize("module, attr", CALLED, ids=[f"{m}.{a}" for m, a in CALLED])
def test_called_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"segrsk.{module}"), attr))
