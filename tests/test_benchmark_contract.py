"""The names the benchmark's tracer patches still exist in the library.

perfbench/tracer.py rebinds every function in SPANNED, looking each one up
with vars(owner)[leaf], and counts constructor calls of every class in
COUNTED.  A deleted or renamed name would only fail the traced benchmark
run, with a KeyError; this test fails first.  The tracer module is read as
text, never imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
