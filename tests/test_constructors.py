"""Every segrsk value is built by its class constructor.

Canonical segment order and zero-free sparse maps hold because the
constructors make them so; equality, hashing and every suite memo rely on
that.  A function that calls object.__new__ builds a value on its caller's
word instead, skipping those steps.  A new bypass needs an entry here.
"""

import ast

from _scopes import package_sources, scopes_where

BYPASSES: set[str] = set()


def _is_object_new(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__new__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    )


def test_no_constructor_bypass():
    assert scopes_where(package_sources(), _is_object_new) == BYPASSES


def test_finds_a_bypass():
    source = (
        "class Box:\n"
        "    @classmethod\n"
        "    def _wrap(cls, x):\n"
        "        box = object.__new__(cls)\n"
        "        box.x = x\n"
        "        return box\n"
    )
    assert scopes_where({"box": source}, _is_object_new) == {"box.Box._wrap"}
