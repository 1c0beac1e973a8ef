"""Every segrsk value is built by its class constructor.

Canonical segment order and zero-free sparse maps hold because the
constructors make them so; equality, hashing and every suite memo rely on
that.  A function that calls object.__new__ builds a value on its caller's
word instead, skipping those steps.  A new bypass needs an entry here.
"""

import ast
from pathlib import Path

import segrsk

BYPASSES: set[str] = set()


def _is_object_new(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__new__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    )


def _object_new_callers(sources: dict[str, str]) -> set[str]:
    """Qualified names (module.qualname) of the scopes that call object.__new__."""
    found = set()

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            scope = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = f"{where}.{child.name}"
            if _is_object_new(child):
                found.add(scope)
            visit(child, scope)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return found


def _package_sources() -> dict[str, str]:
    return {p.stem: p.read_text() for p in Path(segrsk.__file__).parent.glob("*.py")}


def test_no_constructor_bypass():
    assert _object_new_callers(_package_sources()) == BYPASSES


def test_finds_a_bypass():
    source = (
        "class Box:\n"
        "    @classmethod\n"
        "    def _wrap(cls, x):\n"
        "        box = object.__new__(cls)\n"
        "        box.x = x\n"
        "        return box\n"
    )
    assert _object_new_callers({"box": source}) == {"box.Box._wrap"}
